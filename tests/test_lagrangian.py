import csv
import json
from functools import partial

import numpy as np
import pytest

from axisymlab import (
    RenormFunction,
    ScalarField,
    ScalarSeries,
    SpaceTimeBump,
    VelocityField,
    VelocitySeries,
    beta_integral,
    build_grid,
    built_in_renorm_functions,
    cli_main,
    composition_check,
    duality_check,
    jacobian_check,
    read_checkpoint,
    renorm_residual,
    renorm_test_library,
    replay_run_series,
    run_from_config,
    solve_backward_transport,
    solve_forward_transport,
    trace_flow,
)
from axisymlab import TestFunctionSpec as FnSpec
from axisymlab.evolution import (
    TimeStepPlan,
    advect_semi_lagrangian,
    diffuse_relative_vorticity,
    make_state,
    run,
)
from axisymlab.initial_conditions import gaussian_ring_xi
from axisymlab.interpolation import StencilPlan
from axisymlab.lagrangian import _diffuse_dual, _march
from axisymlab.test_functions import random_test_functions


def uniform_axial(grid, w):
    z = np.zeros((grid.nr, grid.nz))
    return VelocityField(grid, z, np.full_like(z, w))


def test_velocity_series_time_interpolation():
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    a = uniform_axial(g, 1.0)
    b = uniform_axial(g, 3.0)
    series = VelocitySeries([0.0, 1.0], [a, b])
    assert np.allclose(series.at(0.5).u_z, 2.0)
    assert np.allclose(series.at(-1.0).u_z, 1.0)  # clamped below
    assert np.allclose(series.at(7.0).u_z, 3.0)  # clamped above
    frozen = VelocitySeries.frozen(a, 2.0)
    assert np.array_equal(frozen.at(1.3).u_z, a.u_z)
    assert frozen.at(0.37) is a  # a frozen series hands out the snapshot itself
    assert series.max_speeds() == (0.0, 3.0)


def test_series_validation():
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    g2 = build_grid(16, 16, 3.0, -1.0, 1.0)
    a = uniform_axial(g, 1.0)
    with pytest.raises(ValueError):
        VelocitySeries([0.0, 0.0], [a, a])  # not increasing
    with pytest.raises(ValueError):
        VelocitySeries([0.0], [a, a])  # length mismatch
    with pytest.raises(ValueError):
        VelocitySeries([0.0, 1.0], [a, uniform_axial(g2, 1.0)])
    f = ScalarField(g, np.ones((16, 16)), role="passive_scalar")
    f2 = ScalarField(g, np.ones((16, 16)), role="dual")
    with pytest.raises(ValueError):
        ScalarSeries([0.0, 1.0], [f, f2])  # role mismatch


def test_scalar_series_sampling():
    g = build_grid(32, 32, 2.0, -1.0, 1.0)
    r2d, z2d = g.meshes()
    f0 = ScalarField(g, r2d**2, role="passive_scalar")
    f1 = ScalarField(g, 3.0 * r2d**2, role="passive_scalar")
    series = ScalarSeries([0.0, 1.0], [f0, f1])
    got = series.sample(0.5, np.array([1.0, 1.5]), np.array([0.0, 0.3]))
    assert np.allclose(got, 2.0 * np.array([1.0, 1.5]) ** 2, atol=1e-10)


def test_trace_flow_uniform_translation():
    g = build_grid(48, 96, 2.0, -2.0, 2.0)
    series = VelocitySeries.frozen(uniform_axial(g, 0.5), 1.0)
    seeds = np.array([[0.5, -1.0], [1.2, 0.0], [1.8, 0.7]])
    flow = trace_flow(series, seeds, T=1.0, n_steps=10)
    assert flow.times.shape == (11,)
    assert np.isclose(flow.times[-1], 1.0)
    expected = seeds + np.array([0.0, 0.5])
    assert np.max(np.abs(flow.positions[-1] - expected)) < 1e-12
    assert flow.active.all()
    assert not flow.axis_flagged.any()
    # zero duration collapses to the seeds
    still = trace_flow(series, seeds, T=0.0)
    assert np.array_equal(still.positions[-1], seeds)


def test_trace_flow_shear_sampling_accuracy():
    # u_z = cos(r) is constant along each trajectory, so the only error is
    # the bicubic pickup of the velocity samples
    g = build_grid(96, 96, 3.0, -2.0, 2.0)
    r2d, _ = g.meshes()
    u = VelocityField(g, np.zeros_like(r2d), np.cos(r2d))
    series = VelocitySeries.frozen(u, 1.0)
    seeds = np.array([[0.7, -0.4], [1.37, 0.0], [2.21, 0.5]])
    flow = trace_flow(series, seeds, T=1.0, n_steps=8)
    exact_z = seeds[:, 1] + np.cos(seeds[:, 0])
    assert np.max(np.abs(flow.positions[-1][:, 0] - seeds[:, 0])) < 1e-9
    assert np.max(np.abs(flow.positions[-1][:, 1] - exact_z)) < 1e-6


def test_trace_flow_cfl_step_count():
    g = build_grid(32, 64, 2.0, -2.0, 2.0)
    series = VelocitySeries.frozen(uniform_axial(g, 1.0), 1.0)
    flow = trace_flow(series, [[1.0, 0.0]], T=1.0, cfl=0.5)
    # hz = 1/16, so the advective bound forces at least T / (0.5 hz) steps
    assert len(flow.times) - 1 >= 32
    dts = np.diff(flow.times)
    assert np.allclose(dts, dts[0])


def test_trace_flow_exit_freezes():
    g = build_grid(32, 32, 2.0, -1.0, 1.0)
    series = VelocitySeries.frozen(uniform_axial(g, 2.0), 1.0)
    flow = trace_flow(series, [[1.0, 0.8], [1.0, -0.9]], T=0.5, n_steps=10)
    assert not flow.active[0]  # left through z = 1
    assert flow.active[1]
    z_path = flow.positions[:, 0, 1]
    assert z_path[-1] < 1.0  # frozen at last interior point
    moved = np.flatnonzero(np.diff(z_path) > 0.0)
    assert 0 < len(moved) < len(z_path) - 1  # advanced, then froze mid-run
    assert np.all(z_path[moved[-1] + 1 :] == z_path[moved[-1] + 1])


def test_trace_flow_validation():
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    series = VelocitySeries.frozen(uniform_axial(g, 1.0), 1.0)
    with pytest.raises(ValueError):
        trace_flow(series, [[0.0, 0.0]], T=1.0)  # on the axis
    with pytest.raises(ValueError):
        trace_flow(series, [[1.0, 0.0, 0.0]], T=1.0)  # bad shape
    with pytest.raises(ValueError):
        trace_flow(series, [[1.0, 0.0]], T=-1.0)
    with pytest.raises(ValueError):
        trace_flow(series, [[1.0, 0.0]], T=1.0, n_steps=0)


def stretching_flow_case(n, a=0.3, T=0.5, n_snap=16):
    """Incompressible stretching u = (a r, -2 a z): the map is
    (r, z) -> (r e^{at}, z e^{-2at}) and omega = r xi is transported with
    the r-ratio Jacobian factor exactly."""
    g = build_grid(n, n, 3.0, -1.5, 1.5)
    r2d, z2d = g.meshes()
    u = VelocityField(g, a * r2d, -2.0 * a * z2d)
    vseries = VelocitySeries.frozen(u, T)
    times = np.linspace(0.0, T, n_snap + 1)

    def xi_at(t):
        # pullback of the initial ring bump along the flow
        rb = r2d * np.exp(-a * t)
        zb = z2d * np.exp(2.0 * a * t)
        return np.exp(-8.0 * ((rb - 1.0) ** 2 + zb**2))

    xis = [ScalarField(g, xi_at(t), role="relative_vorticity") for t in times]
    omegas = [ScalarField(g, r2d * f.values, role="vorticity") for f in xis]
    return g, vseries, ScalarSeries(times, xis), ScalarSeries(times, omegas), times


def test_composition_and_jacobian_on_stretching_flow():
    _, vseries, xi_series, omega_series, times = stretching_flow_case(96)
    seeds = np.array([[0.8, 0.2], [1.0, 0.0], [1.3, -0.4]])
    flow = trace_flow(vseries, seeds, T=times[-1], n_steps=len(times) - 1)
    # xi is constant along trajectories
    assert composition_check(xi_series, flow) < 2e-4
    assert composition_check(xi_series, flow, stride=4) < 2e-4
    # omega picks up the radial stretching factor
    assert jacobian_check(omega_series, flow) < 5e-4
    # a deliberately wrong series must be caught
    bad = ScalarSeries(times, [xi_series.fields[0]] * len(times))
    assert composition_check(bad, flow) > 1e-2


def test_renorm_function_shapes():
    fns = built_in_renorm_functions(delta=0.05, level=1.0)
    assert set(fns) == {"quadratic_clip", "cubic_odd", "linear_plateau", "sign_plateau"}
    s = np.linspace(-4.0, 4.0, 401)
    for beta in fns.values():
        v = beta.value(s)
        assert np.all(v[np.abs(s) <= 0.05] == 0.0)  # dead zone near 0
        assert np.max(np.abs(v)) <= beta.level + 1e-12
        if beta.odd:
            assert np.allclose(beta.value(-s), -v)
        else:
            assert np.allclose(beta.value(-s), v)
    # plateau member saturates exactly at its level
    sp = fns["sign_plateau"]
    assert np.allclose(sp.value(np.array([0.5, 2.0])), sp.level)
    with pytest.raises(ValueError):
        RenormFunction("bad", 2.0, 1.0, -0.1, odd=False)
    with pytest.raises(ValueError):
        RenormFunction("bad", -1.0, 1.0, 0.1, odd=False)


def test_renorm_function_derivative_matches_differences():
    h = 1e-6
    s = np.concatenate([np.linspace(-3.0, 3.0, 173), [0.04, 0.07, 0.11, -0.09]])
    for beta in built_in_renorm_functions().values():
        num = (beta.value(s + h) - beta.value(s - h)) / (2.0 * h)
        assert np.max(np.abs(beta.derivative(s) - num)) < 1e-5


def test_beta_integral_constant_field():
    g = build_grid(32, 48, 2.0, -1.0, 2.0)
    xi = ScalarField(g, np.full((32, 48), 3.0), role="relative_vorticity")
    beta = built_in_renorm_functions()["sign_plateau"]
    # plateau value times the flat measure of the rectangle, integral r dr dz
    expected = beta.level * (2.0**2 / 2.0) * 3.0
    assert abs(beta_integral(xi, beta) - expected) < 1e-12 * expected


def test_renorm_residual_static_field():
    # u = 0 and xi frozen: the weak form telescopes to the fundamental
    # theorem of calculus in t, so the residual is pure trapezoid error
    g = build_grid(48, 48, 3.0, -2.0, 2.0)
    r2d, z2d = g.meshes()
    xi = ScalarField(g, np.exp(-3.0 * ((r2d - 1.2) ** 2 + z2d**2)), role="relative_vorticity")
    u = VelocityField(g, np.zeros_like(r2d), np.zeros_like(r2d))
    beta = built_in_renorm_functions()["quadratic_clip"]
    tests = renorm_test_library(4, 0.8, rng_seed=7)

    def residual(n_snap):
        times = np.linspace(0.0, 0.8, n_snap + 1)
        xis = ScalarSeries(times, [xi] * (n_snap + 1))
        us = VelocitySeries(times, [u] * (n_snap + 1))
        return renorm_residual(xis, us, beta, tests)

    coarse, fine = residual(8), residual(16)
    assert coarse < 2e-5
    assert fine < coarse / 3.0  # trapezoid is at least second order in dt


def test_renorm_residual_flags_fake_dynamics():
    # xi growing in time under zero velocity is not a transport solution
    g = build_grid(48, 48, 3.0, -2.0, 2.0)
    r2d, z2d = g.meshes()
    base = np.exp(-3.0 * ((r2d - 1.2) ** 2 + z2d**2))
    u = VelocityField(g, np.zeros_like(r2d), np.zeros_like(r2d))
    times = np.linspace(0.0, 0.8, 33)
    xis = ScalarSeries(
        times,
        [ScalarField(g, (1.0 + 2.0 * t) * base, role="relative_vorticity") for t in times],
    )
    us = VelocitySeries(times, [u] * 33)
    beta = built_in_renorm_functions()["quadratic_clip"]
    tests = renorm_test_library(4, 0.8, rng_seed=7)
    assert renorm_residual(xis, us, beta, tests) > 1e-3


def test_renorm_residual_time_grid_mismatch():
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    xi = ScalarField(g, np.ones((16, 16)), role="relative_vorticity")
    u = uniform_axial(g, 0.0)
    xis = ScalarSeries([0.0, 0.5, 1.0], [xi] * 3)
    us = VelocitySeries([0.0, 1.0], [u] * 2)
    beta = built_in_renorm_functions()["quadratic_clip"]
    with pytest.raises(ValueError):
        renorm_residual(xis, us, beta, renorm_test_library(1, 1.0, rng_seed=0))


def test_renorm_residual_rejects_other_test_functions():
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    xi = ScalarField(g, np.ones((16, 16)), role="relative_vorticity")
    xis = ScalarSeries.frozen(xi, 1.0)
    us = VelocitySeries.frozen(uniform_axial(g, 0.0), 1.0)
    beta = built_in_renorm_functions()["quadratic_clip"]
    library = renorm_test_library(2, 1.0, rng_seed=0)
    # a spatial test function has no time factor
    with pytest.raises(ValueError, match="SpaceTimeBump"):
        renorm_residual(xis, us, beta, library + random_test_functions(1, 0))


def _reference_renorm_residual(xi_series, velocity_series, beta, f):
    """The per-time loop that renorm_residual ran for one test before, kept as
    the oracle; also returns the same sum over absolute values, the scale of
    its round-off."""
    times = xi_series.times
    r2d, z2d = xi_series.grid.meshes()
    w = xi_series.grid.r_col * xi_series.grid.cell_area
    b, br, bz = f.space.evaluate(r2d, z2d)
    wt, dwt = f.time_weight(times)
    out = []
    for fold in (lambda x: x, np.abs):
        beta_k = [fold(beta.value(xi.values)) for xi in xi_series.fields]
        spatial = np.empty(times.size)
        for k in range(times.size):
            u = velocity_series.fields[k]
            integrand = fold(dwt[k] * b) + fold(wt[k]) * (fold(u.u_r * br) + fold(u.u_z * bz))
            spatial[k] = np.sum(beta_k[k] * integrand * w)
        total = float(np.sum(0.5 * np.diff(times) * (spatial[1:] + spatial[:-1])))
        total += float(np.sum(beta_k[0] * fold(wt[0] * b) * w))
        out.append(abs(total) / f.norm())
    return out


@pytest.mark.parametrize("frozen", [True, False])
def test_renorm_residual_matches_the_per_test_loop(frozen):
    # the blocked products sum in another order, so they agree to round-off
    # of the summed terms; the library's supports cross the grid's outer
    # boundaries
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    r2d, z2d = g.meshes()
    u = _swirl(g)
    # wide enough that beta(xi) is live on most supports
    theta = ScalarField(g, np.exp(-((r2d - 1.5) ** 2 + z2d**2) / 2.0), role="passive_scalar")
    xis = solve_forward_transport(VelocitySeries.frozen(u, 1.0), theta, 1.0, 20)
    velocities = [u if frozen else u.copy() for _ in xis.times]
    for k, v in enumerate(velocities[1:]):
        v.u_z += 0.0 if frozen else 0.01 * k
    us = VelocitySeries(xis.times, velocities)
    library = renorm_test_library(12, 1.0, rng_seed=5)
    for beta in built_in_renorm_functions().values():
        for f in library:
            expect, scale = _reference_renorm_residual(xis, us, beta, f)
            assert expect > 0.0
            assert abs(renorm_residual(xis, us, beta, [f]) - expect) <= 1e-13 * scale
    assert renorm_residual(xis, us, beta, []) == 0.0


def _swirl(g):
    # psi = r^2 exp(-r^2 - z^2): a smooth divergence-free flow with both components
    r2d, z2d = g.meshes()
    env = np.exp(-(r2d**2) - z2d**2)
    return VelocityField(g, 2.0 * r2d * z2d * env, (2.0 - 2.0 * r2d**2) * env)


def _full_grid_renorm_residual(xi_series, velocity_series, beta, tests):
    """renorm_residual as it was before it evaluated beta on the live cells
    only: beta on every cell of every snapshot, and each test's products over
    its whole support box.  The oracle of the live-cell version, bit for bit."""
    times = xi_series.times
    tests = list(tests)
    grid = xi_series.grid
    r2d, z2d = grid.meshes()
    w = grid.r_col * grid.cell_area
    boxes = []
    for f in tests:
        r_lo, r_hi, z_lo, z_hi = f.space.support_box()
        i0, i1 = np.searchsorted(grid.r_centers, (r_lo, r_hi))
        j0, j1 = np.searchsorted(grid.z_centers, (z_lo, z_hi))
        boxes.append((slice(max(i0 - 1, 0), i1 + 1), slice(max(j0 - 1, 0), j1 + 1)))
    parts = [np.stack(f.space.evaluate(r2d[box], z2d[box])).reshape(3, -1, 1)
             for f, box in zip(tests, boxes)]
    wt, dwt = np.moveaxis(np.reshape([f.time_weight(times - times[0]) for f in tests],
                                     (len(tests), 2, times.size)), 0, -1)
    integrals = np.empty((3, times.size, len(tests)))
    for start in range(0, times.size, 8):
        stop = min(start + 8, times.size)
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


def _far_bump(r0, z0):
    return FnSpec("gaussian_bump", {"r0": r0, "z0": z0, "wr": 0.2, "wz": 0.3, "amplitude": 1.0})


def _renorm_case(kind):
    """(xi series, velocity series, test library): a blob carried 20 steps by
    the swirl on a 32x64 grid, live (|xi| > delta) on part of it only."""
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    r2d, z2d = g.meshes()
    u = _swirl(g)
    blob = np.exp(-((r2d - 1.2) ** 2 + z2d**2) / 0.3)
    theta = {"sign_change": blob * np.sin(2.0 * z2d),  # the odd betas give -0 on [-delta, 0)
             "below_delta": 0.049 * blob}.get(kind, blob)
    xis = solve_forward_transport(VelocitySeries.frozen(u, 1.0),
                                  ScalarField(g, theta, role="passive_scalar"), 1.0, 20)
    velocities = [u] * xis.times.size
    if kind == "moving":
        velocities = [VelocityField(g, u.u_r, u.u_z + 0.01 * k) for k in range(xis.times.size)]
    library = renorm_test_library(12, 1.0, rng_seed=5)
    if kind == "missed":  # supports far from the blob's orbit around (1, 0)
        library = [SpaceTimeBump(_far_bump(r0, z0), tau, profile)
                   for r0, z0, tau, profile in [(2.7, 2.5, 0.9, "decay"), (2.7, -2.5, 0.7, "bump"),
                                                (0.5, 2.6, 0.8, "decay")]]
    return xis, VelocitySeries(xis.times, velocities), library


@pytest.mark.parametrize("kind", ["frozen", "moving", "sign_change", "below_delta", "missed"])
def test_renorm_residual_is_the_full_grid_residual_bit_for_bit(kind):
    xis, us, library = _renorm_case(kind)
    for beta in built_in_renorm_functions().values():
        expect = _full_grid_renorm_residual(xis, us, beta, library)
        assert renorm_residual(xis, us, beta, library).hex() == expect.hex()
        assert (expect == 0.0) == (kind in ("below_delta", "missed"))
        for f in library:  # each test alone, so that no maximum hides a difference
            alone = _full_grid_renorm_residual(xis, us, beta, [f])
            assert renorm_residual(xis, us, beta, [f]).hex() == alone.hex()


def test_renorm_residual_evaluates_beta_on_the_live_boxes_only(monkeypatch):
    xis, us, library = _renorm_case("frozen")
    beta = built_in_renorm_functions()["cubic_odd"]
    live_cells = 0
    for xi in xis.fields:
        rows, cols = np.nonzero(np.abs(xi.values) > beta.delta)
        live_cells += (np.ptp(rows) + 1) * (np.ptp(cols) + 1)
    assert live_cells < xis.times.size * xis.grid.nr * xis.grid.nz / 2
    given = []
    value = RenormFunction.value
    monkeypatch.setattr(RenormFunction, "value",
                        lambda self, s: given.append(np.size(s)) or value(self, s))
    assert renorm_residual(xis, us, beta, library) > 0.0
    assert 0 < sum(given) <= live_cells


def test_renorm_functions_are_elementwise_on_strided_views():
    # renorm_residual evaluates beta on sub-boxes of a snapshot, which are
    # strided views; every value must carry the bits it has on the whole
    # array, whichever vector loop numpy picks for either
    rng = np.random.default_rng(3)
    g = build_grid(40, 96, 3.0, -3.0, 3.0)
    r2d, z2d = g.meshes()
    fields = [1.5 * np.exp(-((r2d - 1.2) ** 2 + z2d**2) / 0.5) * np.sin(3.0 * z2d),
              2.0 * rng.standard_normal((40, 96))]
    for xi in fields:
        for beta in built_in_renorm_functions().values():
            whole = beta.value(xi)
            for box in [(slice(3, 31), slice(7, 90)), (slice(1, None, 3), slice(2, 95, 2))]:
                assert not xi[box].flags.c_contiguous
                assert beta.value(xi[box]).tobytes() == np.ascontiguousarray(whole[box]).tobytes()


def test_renorm_check_report_matches_the_full_grid_oracle(tmp_path, capsys):
    doc = {
        "grid": {"nr": 24, "nz": 48, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
        "nu": 1e-3, "tfinal": 0.1, "dt": 0.01, "scheme": "xi_semilagrangian",
        "p_list": [1.0, 2.0], "rng_seed": 4,
        "initial_condition": {"kind": "gaussian_ring", "r0": 1.0, "z0": 0.0,
                              "sigma": 0.3, "amplitude": 1.0},
    }
    run_from_config(doc, str(tmp_path))
    assert cli_main(["renorm-check", "--run", str(tmp_path), "--tests", "6"]) == 0
    xis, us = replay_run_series(doc)
    library = renorm_test_library(6, doc["tfinal"], rng_seed=4)
    residuals = {name: _full_grid_renorm_residual(xis, us, beta, library)
                 for name, beta in built_in_renorm_functions().items()}
    assert all(v > 0.0 for v in residuals.values())
    report = {"run": str(tmp_path), "tfinal": 0.1, "nu": 1e-3, "tests": 6,
              "residuals": residuals}
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "renorm_report.json").read_text(encoding="utf-8") == expected


def test_forward_transport_is_repeated_semi_lagrangian_step():
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    r2d, z2d = g.meshes()
    u = _swirl(g)
    theta = ScalarField(g, np.exp(-((r2d - 0.9) ** 2 + z2d**2) / 0.1), role="passive_scalar")
    series = VelocitySeries.frozen(u, 0.5)
    out = solve_forward_transport(series, theta, T=0.5, n_steps=5)
    for k in range(5):
        # the series blends its two equal snapshots at the step midpoint
        theta = advect_semi_lagrangian(theta, series.at(0.1 * k + 0.05), 0.1)
        assert np.array_equal(out.fields[k + 1].values, theta.values)


def test_backward_transport_is_advection_by_reversed_velocity():
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    r2d, z2d = g.meshes()
    u = _swirl(g)
    series = VelocitySeries.frozen(u, 0.5)
    f = ScalarField(g, np.exp(-((r2d - 1.1) ** 2 + z2d**2) / 0.1), role="dual")
    out = solve_backward_transport(series, None, T=0.5, n_steps=5, f_final=f)
    for k in range(5):
        mid = series.at(0.5 - (0.1 * k + 0.05))
        f = advect_semi_lagrangian(f, VelocityField(g, -mid.u_r, -mid.u_z), 0.1)
        assert np.array_equal(out.fields[4 - k].values, f.values)


def test_march_keeps_departures_without_changing_a_value():
    # a frozen series hands _march one velocity object, so the departure
    # points are computed once; a velocity that is a fresh copy on every call
    # makes _march compute them on every step
    g = build_grid(32, 64, 3.0, -3.0, 3.0)
    r2d, z2d = g.meshes()
    u = _swirl(g)
    series = VelocitySeries.frozen(u, 0.5)
    nu = 1e-2

    def chi(t, r, z):
        return (1.0 + t) * np.exp(-((r - 0.7) ** 2 + z**2) / 0.1)

    theta = ScalarField(g, np.exp(-((r2d - 0.9) ** 2 + z2d**2) / 0.1), role="passive_scalar")
    diffuse = partial(diffuse_relative_vorticity, nu=nu)
    _, kept = _march(series.at, theta, g, 0.5, 5, diffuse, chi)
    _, fresh = _march(lambda t: series.at(t).copy(), theta, g, 0.5, 5, diffuse, chi)
    assert [f.values.tobytes() for f in kept] == [f.values.tobytes() for f in fresh]

    backward = solve_backward_transport(series, chi, 0.5, 5, nu=nu)
    zero = ScalarField(g, np.zeros((g.nr, g.nz)), role="dual")
    _, fresh = _march(lambda tau: VelocityField(g, -u.u_r, -u.u_z), zero, g, 0.5, 5,
                      partial(_diffuse_dual, nu=nu), lambda tau, r, z: chi(0.5 - tau, r, z))
    assert [f.values.tobytes() for f in backward.fields] == [
        f.values.tobytes() for f in fresh[::-1]]


def test_each_loop_owns_one_stencil_plan(monkeypatch):
    # the xi route's run, a trace and a time-varying march each build one
    # plan and relocate it; the omega route needs none
    built = []
    real_init = StencilPlan.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(StencilPlan, "__init__", counting)

    def count(fn, *args, **kwargs):
        built.clear()
        out = fn(*args, **kwargs)
        return len(built), out

    g = build_grid(16, 32, 3.0, -3.0, 3.0)
    r2d, z2d = g.meshes()
    st = make_state(g, gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0), 1e-2)
    for scheme, plans in (("xi_semilagrangian", 1), ("omega_conservative", 0)):
        n, (final, _) = count(run, st, 0.1, TimeStepPlan(dt=0.02, scheme=scheme))
        assert (n, final.step_index) == (plans, 5)
    series = VelocitySeries([0.0, 0.5], [_swirl(g), uniform_axial(g, 0.3)])
    seeds = np.column_stack([np.linspace(0.2, 1.5, 12), np.linspace(-1.0, 1.0, 12)])
    assert count(trace_flow, series, seeds, 0.5, n_steps=4)[0] == 1
    theta = ScalarField(g, np.exp(-((r2d - 0.9) ** 2 + z2d**2) / 0.1), role="passive_scalar")
    diffuse = partial(diffuse_relative_vorticity, nu=1e-2)
    assert count(_march, series.at, theta, g, 0.5, 5, diffuse, None)[0] == 1


def test_forward_transport_constant_source():
    g = build_grid(32, 32, 2.0, -1.0, 1.0)
    series = VelocitySeries.frozen(uniform_axial(g, 0.0), 1.0)
    theta0 = ScalarField(g, np.zeros((32, 32)), role="passive_scalar")
    out = solve_forward_transport(series, theta0, T=1.0, n_steps=8, source=lambda t, r, z: 3.0 + 0.0 * r)
    assert out.times.shape == (9,)
    assert np.max(np.abs(out.fields[-1].values - 3.0)) < 1e-12
    # the same source supplied as a frozen scalar series
    chi = ScalarSeries.frozen(ScalarField(g, np.full((32, 32), 3.0), role="passive_scalar"), 1.0)
    out2 = solve_forward_transport(series, theta0, T=1.0, n_steps=8, source=chi)
    assert np.max(np.abs(out2.fields[-1].values - 3.0)) < 1e-10


def test_backward_transport_constant_source():
    g = build_grid(32, 32, 2.0, -1.0, 1.0)
    series = VelocitySeries.frozen(uniform_axial(g, 0.0), 1.0)
    out = solve_backward_transport(series, lambda t, r, z: 2.0 + 0.0 * r, T=1.0, n_steps=8)
    # -f_t = 2 with f(T) = 0 gives f(0) = 2T
    assert np.max(np.abs(out.fields[0].values - 2.0)) < 1e-12
    assert out.times[0] == 0.0 and out.times[-1] == 1.0
    # final datum carried backward untouched when chi = 0
    g2, _ = g.meshes()
    f_final = ScalarField(g, np.cos(g2), role="dual")
    out2 = solve_backward_transport(series, None, T=1.0, n_steps=8, f_final=f_final)
    assert np.max(np.abs(out2.fields[0].values - f_final.values)) < 1e-12


def test_transports_time_dependent_source():
    # u = 0 and a source linear in t, which the trapezoid rule integrates
    # exactly: d_t theta = t from 0 gives theta(T) = T^2 / 2, and -d_t f = t
    # with f(T) = 0 gives f(0) = T^2 / 2
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    series = VelocitySeries.frozen(uniform_axial(g, 0.0), 1.0)
    theta0 = ScalarField(g, np.zeros((16, 16)), role="passive_scalar")

    def chi(t, r, z):
        return t + 0.0 * r

    fwd = solve_forward_transport(series, theta0, T=1.0, n_steps=8, source=chi)
    assert np.max(np.abs(fwd.fields[4].values - 0.125)) < 1e-12
    assert np.max(np.abs(fwd.fields[-1].values - 0.5)) < 1e-12
    bwd = solve_backward_transport(series, chi, T=1.0, n_steps=8)
    assert np.max(np.abs(bwd.fields[4].values - 0.375)) < 1e-12
    assert np.max(np.abs(bwd.fields[0].values - 0.5)) < 1e-12


def test_transport_validation():
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    g2 = build_grid(16, 16, 3.0, -1.0, 1.0)
    series = VelocitySeries.frozen(uniform_axial(g, 0.0), 1.0)
    theta0 = ScalarField(g, np.ones((16, 16)), role="passive_scalar")
    with pytest.raises(ValueError):
        solve_forward_transport(series, theta0, T=0.0, n_steps=4)
    with pytest.raises(ValueError):
        solve_forward_transport(series, theta0, T=1.0, n_steps=0)
    with pytest.raises(ValueError):
        solve_forward_transport(
            series, ScalarField(g2, np.ones((16, 16)), role="passive_scalar"), T=1.0, n_steps=4
        )
    with pytest.raises(ValueError):
        solve_forward_transport(series, theta0, T=1.0, n_steps=4, source=3.0)
    for solve, datum in ((solve_forward_transport, theta0), (solve_backward_transport, None)):
        with pytest.raises(ValueError):
            solve(series, datum, T=1.0, n_steps=4, nu=-1e-2)
    with pytest.raises(ValueError):
        solve_backward_transport(
            series, None, T=1.0, n_steps=4,
            f_final=ScalarField(g2, np.ones((16, 16)), role="dual"),
        )


def test_duality_box_closed_form():
    g = build_grid(32, 32, 2.0, -1.0, 1.0)
    series = VelocitySeries.frozen(uniform_axial(g, 0.0), 1.0)
    r2d, z2d = g.meshes()
    theta0 = ScalarField(g, np.exp(-2.0 * ((r2d - 1.0) ** 2 + z2d**2)), role="passive_scalar")
    theta = solve_forward_transport(series, theta0, T=1.0, n_steps=8)

    def chi(t, r, z):
        return 1.5 + 0.0 * r

    f = solve_backward_transport(series, chi, T=1.0, n_steps=8)
    assert duality_check(theta, f, chi, T=1.0) < 1e-12
    # series-valued source and the source-free adjoint identity
    chi_series = ScalarSeries.frozen(ScalarField(g, np.full((32, 32), 1.5), role="dual"), 1.0)
    f2 = solve_backward_transport(series, chi_series, T=1.0, n_steps=8)
    assert duality_check(theta, f2, chi_series, T=1.0) < 1e-12
    final = ScalarField(g, theta0.values.copy(), role="dual")
    f3 = solve_backward_transport(series, None, T=1.0, n_steps=8, f_final=final)
    assert duality_check(theta, f3, None, T=1.0) < 1e-12


def test_duality_under_shear_flow():
    # nontrivial steady shear, smooth compactly supported source
    g = build_grid(64, 64, 3.0, -1.5, 1.5)
    r2d, z2d = g.meshes()
    u = VelocityField(g, np.zeros_like(r2d), 0.4 * np.cos(1.1 * r2d))
    series = VelocitySeries.frozen(u, 0.5)
    theta0 = ScalarField(g, np.exp(-6.0 * ((r2d - 1.3) ** 2 + z2d**2)), role="passive_scalar")

    def chi(t, r, z):
        return np.exp(-5.0 * ((r - 1.5) ** 2 + (z - 0.2) ** 2))

    theta = solve_forward_transport(series, theta0, T=0.5, n_steps=16)
    f = solve_backward_transport(series, chi, T=0.5, n_steps=16)
    assert duality_check(theta, f, chi, T=0.5) < 2e-3


def test_duality_time_grid_mismatch():
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    f = ScalarField(g, np.ones((16, 16)), role="passive_scalar")
    a = ScalarSeries([0.0, 0.5, 1.0], [f] * 3)
    b = ScalarSeries([0.0, 1.0], [f] * 2)
    with pytest.raises(ValueError):
        duality_check(a, b, None, T=1.0)


@pytest.mark.parametrize("boundary", ["zero", "kernel"])
def test_replay_reproduces_the_run(tmp_path, boundary):
    # the replay starts from the run's own initial state and steps with its
    # plan, so it lands on the run's final checkpoint bit for bit
    doc = {
        "grid": {"nr": 16, "nz": 32, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
        "nu": 1e-2, "tfinal": 0.03, "dt": 0.01, "scheme": "xi_semilagrangian",
        "boundary": boundary, "p_list": [1.0, 2.0],
        "initial_condition": {"kind": "gaussian_ring", "r0": 1.0, "z0": 0.0,
                              "sigma": 0.3, "amplitude": 1.0},
    }
    run_from_config(doc, str(tmp_path))
    xis, _ = replay_run_series(doc)
    final = read_checkpoint(str(tmp_path / "checkpoint_final.axf1"))
    assert np.array_equal(xis.fields[-1].values, final.xi.values)
    with open(tmp_path / "diagnostics.csv", encoding="utf-8") as f:
        times = [float(row["t"]) for row in csv.DictReader(f)]
    assert xis.times.tolist() == times
