import gc
import re
import weakref

import numpy as np
import pytest

from axisymlab.biot_savart import (
    check_divergence,
    kernel_decay_check,
    kernel_stream_values,
    kernel_velocity,
    ring_stream,
    ring_velocity,
    solve_stream_function,
    stream_operator_radial,
    velocity_from_stream,
)
from axisymlab.biot_savart import _kernel_boundary_rhs
from axisymlab.grid import ScalarField, build_grid
from axisymlab.initial_conditions import (
    hill_vortex_stream,
    hill_vortex_velocity,
    hill_vortex_velocity_field,
    gaussian_ring_xi,
    hill_vortex_xi,
)
from axisymlab.separable import apply_separable


def apply_B(psi, grid):
    """B psi with homogeneous Dirichlet closures, from the coefficients the solve inverts."""
    return apply_separable(psi, stream_operator_radial(grid), grid.hz, "dirichlet")


def manufactured(grid):
    """psi* = r^2 exp(-r^2 - z^2) and the matching vorticity omega* with
    B psi* = r omega*."""
    r2d, z2d = grid.meshes()
    e = np.exp(-(r2d**2) - z2d**2)
    psi = r2d**2 * e
    omega = r2d * (10.0 - 4.0 * r2d**2 - 4.0 * z2d**2) * e
    return psi, omega


def test_operator_consistency_manufactured():
    errs = []
    for n in (48, 96):
        g = build_grid(n, 2 * n, 6.0, -6.0, 6.0)
        psi, omega = manufactured(g)
        resid = apply_B(psi, g) - g.r_col * omega
        # skip the outer Dirichlet rows where the homogeneous ghost is only
        # consistent with the (exponentially small) exact boundary values
        errs.append(np.max(np.abs(resid[: n - 1, 1:-1])))
    assert np.log2(errs[0] / errs[1]) > 1.9


def test_operator_axis_row_exact_on_r_squared():
    # the axis flux closure is built to annihilate c r^2 exactly
    g = build_grid(16, 8, 2.0, -1.0, 1.0)
    psi = 3.0 * g.r_col**2 * np.ones((16, 8))
    out = apply_B(psi, g)
    assert np.max(np.abs(out[: 16 - 1, 1:-1])) < 1e-12


def test_operator_self_adjoint_positive():
    g = build_grid(12, 10, 2.0, -1.0, 1.0)
    rng = np.random.default_rng(7)
    w = 1.0 / g.r_col
    for _ in range(5):
        a = rng.standard_normal((12, 10))
        b = rng.standard_normal((12, 10))
        Ba = apply_B(a, g)
        Bb = apply_B(b, g)
        ip_ab = np.sum(Ba * b * w)
        ip_ba = np.sum(a * Bb * w)
        assert abs(ip_ab - ip_ba) < 1e-10 * max(abs(ip_ab), 1.0)
        assert np.sum(Ba * a * w) > 0.0


def test_solver_converges_to_manufactured():
    errs = []
    for n in (48, 96):
        g = build_grid(n, 2 * n, 6.0, -6.0, 6.0)
        psi_star, omega = manufactured(g)
        om = ScalarField(g, omega, role="vorticity")
        psi, rep = solve_stream_function(om)
        # a direct solve: the measured weighted residual is round-off
        assert rep.iterations == 0 and rep.residual <= 1e-11
        errs.append(np.max(np.abs(psi.values - psi_star)) / np.max(np.abs(psi_star)))
    assert np.log2(errs[0] / errs[1]) > 1.9


def test_solver_validation_and_failure():
    g = build_grid(16, 16, 2.0, -1.0, 1.0)
    om = ScalarField(g, np.ones((16, 16)), role="vorticity")
    with pytest.raises(ValueError):
        solve_stream_function(om, boundary="open")
    # the report's residual is measured, not assumed: it matches an
    # independent evaluation of |B psi - r omega| / |r omega| in the 1/r weight
    for boundary in ("zero", "kernel"):
        psi, rep = solve_stream_function(om, boundary=boundary)
        assert rep.iterations == 0
        assert rep.residual <= 1e-11
    psi, rep = solve_stream_function(om)
    b = g.r_col * om.values
    res = apply_B(psi.values, g) - b
    w = 1.0 / g.r_col
    own = np.sqrt(np.sum(w * res**2) / np.sum(w * b**2))
    assert rep.residual == pytest.approx(own, rel=1e-6, abs=1e-16)
    # zero data gives the zero solution with a zero residual
    psi0, rep0 = solve_stream_function(ScalarField(g, np.zeros((16, 16)), role="vorticity"))
    assert not np.any(psi0.values) and rep0.residual == 0.0


def test_velocity_from_stream_divergence_free():
    g = build_grid(64, 128, 6.0, -6.0, 6.0)
    _, omega = manufactured(g)
    om = ScalarField(g, omega, role="vorticity")
    psi, _ = solve_stream_function(om)
    u = velocity_from_stream(psi)
    umax = float(np.max(np.sqrt(u.u_r**2 + u.u_z**2)))
    assert check_divergence(u) < 5e-2 * umax
    # u_r extrapolates to ~0 on the axis
    assert np.max(np.abs(1.5 * u.u_r[0] - 0.5 * u.u_r[1])) < 1e-3 * umax


def test_hill_velocity_against_analytic():
    a, A = 1.0, 1.0
    g = build_grid(128, 256, 4.0, -4.0, 4.0)
    xi = hill_vortex_xi(g, a, A)
    om = ScalarField(g, xi.values * g.r_col, role="vorticity")
    psi, _ = solve_stream_function(om, boundary="kernel")
    u = velocity_from_stream(psi)
    exact = hill_vortex_velocity_field(g, a, A)
    err = np.hypot(u.u_r - exact.u_r, u.u_z - exact.u_z)
    umax = float(np.hypot(exact.u_r, exact.u_z).max())
    assert float(err.max()) / umax < 0.03


def test_kernel_matches_hill_outside_vortex():
    # independent reconstruction route: direct filament summation
    a, A = 1.0, 1.0
    g = build_grid(128, 256, 4.0, -4.0, 4.0)
    xi = hill_vortex_xi(g, a, A)
    om = ScalarField(g, xi.values * g.r_col, role="vorticity")
    pts = np.array([[1.8, 0.0], [2.5, 0.5], [1.2, -1.5], [3.0, 1.0], [0.7, 2.0]])
    got = kernel_velocity(om, pts)
    ur, uz = hill_vortex_velocity(pts[:, 0], pts[:, 1], a, A)
    umax = 2.0 * A * a**2 / 15.0
    assert np.max(np.hypot(got[:, 0] - ur, got[:, 1] - uz)) < 0.02 * umax
    psi_pts = kernel_stream_values(om, pts)
    psi_exact = hill_vortex_stream(pts[:, 0], pts[:, 1], a, A)
    assert np.max(np.abs(psi_pts - psi_exact)) < 0.02 * np.max(np.abs(psi_exact))


def test_two_reconstruction_routes_agree():
    # smooth compact vorticity: elliptic solve and kernel summation must
    # agree away from the support
    g = build_grid(96, 192, 4.0, -4.0, 4.0)
    r2d, z2d = g.meshes()
    omega = r2d * np.exp(-8.0 * ((r2d - 1.2) ** 2 + z2d**2))
    om = ScalarField(g, omega, role="vorticity")
    psi, _ = solve_stream_function(om, boundary="kernel")
    u = velocity_from_stream(psi)
    idx = [(20, 40), (60, 96), (40, 150), (80, 60)]
    pts = np.array([[g.r_centers[i], g.z_centers[j]] for i, j in idx])
    got = kernel_velocity(om, pts)
    umax = float(np.max(np.sqrt(u.u_r**2 + u.u_z**2)))
    for (i, j), (ur, uz) in zip(idx, got):
        assert abs(u.u_r[i, j] - ur) < 0.02 * umax
        assert abs(u.u_z[i, j] - uz) < 0.02 * umax


def test_ring_kernel_on_axis_limit():
    # u_z near the axis in the filament plane tends to 1/(2 rbar)
    for rbar in (0.5, 1.0, 2.0):
        _, uz = ring_velocity(1e-6, 0.0, rbar, 0.0)
        assert abs(uz - 1.0 / (2.0 * rbar)) < 1e-4 / rbar


def test_ring_kernel_symmetries():
    # Green's function symmetry and mirror symmetry in z
    assert abs(ring_stream(1.3, 0.4, 0.7, -0.2) - ring_stream(0.7, -0.2, 1.3, 0.4)) < 1e-14
    assert abs(ring_stream(1.3, 0.4, 0.7, 0.0) - ring_stream(1.3, -0.4, 0.7, 0.0)) < 1e-14
    ur_p, uz_p = ring_velocity(1.3, 0.4, 0.7, 0.0)
    ur_m, uz_m = ring_velocity(1.3, -0.4, 0.7, 0.0)
    assert abs(ur_p + ur_m) < 1e-14 and abs(uz_p - uz_m) < 1e-14


def test_ring_far_field_decay():
    # dipole far field: |u| * rho^3 bounded as rho grows
    rbar = 1.0
    vals = []
    for rho in (10.0, 40.0, 160.0):
        ur, uz = ring_velocity(rho / np.sqrt(2.0), rho / np.sqrt(2.0), rbar, 0.0)
        vals.append(np.hypot(ur, uz) * rho**3)
    assert vals[2] < 2.0 * vals[0]
    assert all(np.isfinite(v) and v > 0.0 for v in vals)


def test_kernel_velocity_validation():
    g = build_grid(8, 8, 1.0, -1.0, 1.0)
    om = ScalarField(g, np.ones((8, 8)), role="vorticity")
    with pytest.raises(ValueError):
        kernel_velocity(om, np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        kernel_velocity(om, np.zeros((3, 3)))
    for bad in (np.zeros((3, 3)), np.zeros((2, 3, 2)), np.zeros(3)):
        with pytest.raises(ValueError):
            kernel_stream_values(om, bad)
    # points on or left of the axis give 0; a single (r, z) pair is one point
    assert np.array_equal(kernel_stream_values(om, [[0.0, 0.1], [-0.5, 0.0]]), [0.0, 0.0])
    assert kernel_stream_values(om, [0.5, 0.0]).shape == (1,)
    # a non-finite query is named, not summed into NaN or 0
    for bad in ([[np.nan, 0.0]], [[np.inf, 0.0]], [[1.0, np.inf]]):
        for kernel in (kernel_velocity, kernel_stream_values):
            with pytest.raises(ValueError, match=re.escape(f"finite, got {bad}")):
                kernel(om, [[0.5, 0.0]] + bad)


def test_kernel_decay_check():
    rep = kernel_decay_check(sample_count=1500, rng_seed=1)
    assert np.isfinite(rep.sup_product) and rep.sup_product > 0.0
    assert np.isfinite(rep.far_field_sup)
    assert rep.samples >= 1000
    assert all(np.isfinite(v) for v in rep.per_scale.values())
    with pytest.raises(ValueError):
        kernel_decay_check(sample_count=10)


# ---------------------------------------------------------------------------
# kernel_stream_values against the plain per-cell sum


def direct_stream_values(omega, points):
    """The per-cell sum: ring_stream(rq, zq, rbar, zbar) * omega * cell_area
    over every nonzero cell, one point at a time; 0 for r <= 0.  A cell whose
    centre is the query point itself is left out (its filament is singular
    there)."""
    g = omega.grid
    r2d, z2d = g.meshes()
    out = np.zeros(len(points))
    for i, (rq, zq) in enumerate(points):
        if rq <= 0.0:
            continue
        cells = (omega.values != 0.0) & ~((r2d == rq) & (z2d == zq))
        gamma = omega.values[cells] * g.cell_area
        out[i] = np.sum(ring_stream(rq, zq, r2d[cells], z2d[cells]) * gamma)
    return out


def boundary_points(g):
    """Outer-boundary points: the r = r_max face, then z_min, then z_max."""
    return np.vstack([
        np.column_stack([np.full(g.nz, g.r_max), g.z_centers]),
        np.column_stack([g.r_centers, np.full(g.nr, g.z_min)]),
        np.column_stack([g.r_centers, np.full(g.nr, g.z_max)]),
    ])


def vorticity(g, support):
    # Hill's vortex vanishes outside its sphere; the Gaussian ring nowhere.
    # hill_tail adds round-off-small vorticity to every cell, as one
    # diffusive step does, so every solve after the first sums the whole grid
    if support == "gaussian":
        xi = gaussian_ring_xi(g, 1.0, 0.1, 0.3, 1.0)
    else:
        xi = hill_vortex_xi(g, 0.8, 1.0)
    omega = g.r_col * xi.values
    if support == "hill_tail":
        omega = omega + 1e-17 * (1.0 + np.random.default_rng(3).random(omega.shape))
    return ScalarField(g, omega, role="vorticity")


GRIDS = {
    "dyadic": (64, 128, 3.0, -3.0, 3.0),
    "non_dyadic": (50, 70, 2.3, -1.7, 1.7),
}


@pytest.mark.parametrize("support", ["hill", "gaussian", "hill_tail"])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_kernel_stream_values_boundary_matches_direct_sum(grid_name, support):
    g = build_grid(*GRIDS[grid_name])
    om = vorticity(g, support)
    assert (np.count_nonzero(om.values) < om.values.size) == (support == "hill")
    pts = boundary_points(g)
    got = kernel_stream_values(om, pts)
    assert "kernel_boundary_plan" in vars(g)  # the faces read the grid's tables
    want = direct_stream_values(om, pts)
    assert np.all(want > 0.0)
    assert np.max(np.abs(got - want) / want) <= 1e-13


@pytest.mark.parametrize("support", ["hill", "gaussian"])
def test_kernel_stream_values_scattered_points_match_direct_sum(support):
    g = build_grid(*GRIDS["non_dyadic"])
    om = vorticity(g, support)
    rng = np.random.default_rng(5)
    scattered = np.column_stack([rng.uniform(0.01, 2.5, 40), rng.uniform(-2.0, 2.0, 40)])
    # shared radii, cell centres inside and outside the support, and points
    # on or left of the axis
    shared = np.column_stack([np.full(6, 1.1), rng.uniform(-1.0, 1.0, 6)])
    centres = np.array([[g.r_centers[i], g.z_centers[j]] for i, j in ((10, 35), (16, 47), (45, 60))])
    axis = np.array([[0.0, 0.2], [-0.3, -0.1]])
    pts = np.vstack([scattered, shared, centres, axis, scattered[:3]])
    got = kernel_stream_values(om, pts)
    want = direct_stream_values(om, pts)
    assert np.all(np.isfinite(got))
    assert np.array_equal(got[pts[:, 0] <= 0.0], [0.0, 0.0])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    # a repeated point gets the same value wherever it appears
    assert np.array_equal(got[-3:], got[:3])


@pytest.mark.parametrize("support", ["hill", "gaussian", "hill_tail"])
@pytest.mark.parametrize("grid_name", sorted(GRIDS))
def test_kernel_boundary_rhs_matches_per_face_assembly(grid_name, support):
    g = build_grid(*GRIDS[grid_name])
    om = vorticity(g, support)
    nr, nz = g.nr, g.nz
    rc, zc = g.r_centers, g.z_centers
    # one direct sum per face, the ghost-cell closure ghost = 2 g - interior
    want = np.zeros((nr, nz))
    side = direct_stream_values(om, np.column_stack([np.full(nz, g.r_max), zc]))
    want[nr - 1, :] += 2.0 * rc[-1] * side / (g.hr**2 * g.r_max)
    for col, z in ((0, g.z_min), (nz - 1, g.z_max)):
        face = direct_stream_values(om, np.column_stack([rc, np.full(nr, z)]))
        want[:, col] += 2.0 * face / g.hz**2
    got = _kernel_boundary_rhs(om)
    assert np.array_equal(got != 0.0, want != 0.0)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("support", ["hill", "gaussian"])
def test_kernel_plan_reproduces_the_per_call_sum(support):
    # the grid's boundary tables, built by the first face call, serve every
    # later call and every other field bit for bit as on a fresh grid; face
    # and off-face values match the plain per-cell sum to round-off
    g = build_grid(*GRIDS["non_dyadic"])
    om = vorticity(g, support)
    rng = np.random.default_rng(7)
    scattered = np.column_stack([rng.uniform(0.01, 2.5, 20), rng.uniform(-2.0, 2.0, 20)])
    # a cell centre inside Hill's support, and points on or left of the axis
    special = np.array([[g.r_centers[16], g.z_centers[47]], [0.0, 0.2], [-0.3, 0.1]])
    faces = boundary_points(g)
    # the second field's support is another part of the tables
    for field in (om, om.with_values(-0.5 * np.roll(om.values, 7, axis=1))):
        fresh = build_grid(*GRIDS["non_dyadic"])
        once = kernel_stream_values(ScalarField(fresh, field.values, role="vorticity"), faces)
        for pts in (faces, np.vstack([scattered, special])):
            first = kernel_stream_values(field, pts)
            assert kernel_stream_values(field, pts).tobytes() == first.tobytes()
            want = direct_stream_values(field, pts)
            assert np.all(np.abs(first - want) <= 1e-13 * np.abs(want))
        assert kernel_stream_values(field, faces).tobytes() == once.tobytes()
    assert g.kernel_boundary_plan is g.kernel_boundary_plan


def test_boundary_tables_are_the_kernel_values_of_their_pairs():
    # the z faces' table is evaluated for each unordered pair of radii and
    # mirrored; every entry must still be the kernel value of its own pair
    for args in GRIDS.values():
        g = build_grid(*args)
        tables = g.kernel_boundary_plan
        rc, zc = g.r_centers, g.z_centers
        want = ring_stream(g.r_max, zc - zc[0], rc[:, None], 0.0)
        assert tables.side.tobytes() == want.tobytes()
        dist = np.abs(np.array([[g.z_min], [g.z_max]]) - zc)
        offsets = np.unique(dist)
        assert np.array_equal(offsets[tables.columns], dist)
        want = ring_stream(rc[:, None, None], offsets, rc[:, None], 0.0)
        assert tables.ends.shape == want.shape
        assert tables.ends.tobytes() == want.tobytes()


def test_kernel_stream_values_add_repeated_offsets_over_the_whole_grid():
    # on a grid symmetric about z = 0, a query at z = 0 sees every offset
    # |z - zbar| twice, and a point of the r = r_max face reads most lags
    # |j - j'| twice; vorticity round-off-small but nonzero in every cell, as
    # after one diffusive step, puts every cell in both sums
    g = build_grid(24, 48, 3.0, -3.0, 3.0)
    om = vorticity(g, "hill_tail")
    assert np.all(om.values != 0.0)
    mid = np.column_stack([g.r_centers[[2, 9, 17]] + 0.01, np.zeros(3)])
    for pts in (boundary_points(g), np.vstack([mid, [[1.3, 0.0]]])):
        got = kernel_stream_values(om, pts)
        want = direct_stream_values(om, pts)
        assert np.all(want > 0.0)
        assert np.max(np.abs(got - want) / want) <= 1e-13


def test_other_points_and_grids_are_summed_per_cell():
    # only the grid's own outer-face points read its tables: a part of them,
    # points near them and the faces of another grid take the per-cell sum
    g = build_grid(*GRIDS["non_dyadic"])
    om = vorticity(g, "hill")
    pts = boundary_points(g)
    other = build_grid(50, 70, 2.3, -1.7, 1.8)
    for field, query in ((om, pts[:10]), (om, pts + [0.0, 1e-3]),
                         (vorticity(other, "hill"), pts)):
        got = kernel_stream_values(field, query)
        want = direct_stream_values(field, query)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
    assert "kernel_boundary_plan" not in vars(g) and "kernel_boundary_plan" not in vars(other)


def test_grid_and_its_boundary_plan_need_no_cycle_collector():
    # a run's grid and the kernel tables it keeps go when the run ends, not at
    # the next cyclic collection, which a kernel-boundary run may never start
    g = build_grid(16, 32, 3.0, -3.0, 3.0)
    assert g.kernel_boundary_plan is g.kernel_boundary_plan
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()
