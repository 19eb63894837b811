import numpy as np
import pytest
from scipy import integrate

from axisymlab.grid import (
    AXIS_SYMMETRY,
    ScalarField,
    VelocityField,
    build_grid,
    ddr,
    ddz,
    gradient,
    integrate_signed,
    integrate_weighted,
)


def test_grid_geometry():
    g = build_grid(8, 16, 2.0, -1.0, 3.0)
    assert g.hr == 0.25
    assert g.hz == 0.25
    assert g.r_centers[0] == 0.5 * g.hr
    assert g.r_centers[-1] == 2.0 - 0.5 * g.hr
    assert g.z_centers[0] == -1.0 + 0.5 * g.hz
    assert np.allclose(np.diff(g.r_centers), g.hr)
    r2d, z2d = g.meshes()
    assert r2d.shape == (8, 16)
    # C order, z fastest
    assert r2d[3, 5] == g.r_centers[3] and z2d[3, 5] == g.z_centers[5]
    assert g == build_grid(8, 16, 2.0, -1.0, 3.0)
    assert g != build_grid(8, 16, 2.0, -1.0, 2.0)


def test_build_grid_validation():
    with pytest.raises(ValueError):
        build_grid(3, 16, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        build_grid(8, 16, -1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        build_grid(8, 16, 1.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        build_grid(8.0, 16, 1.0, -1.0, 1.0)


def test_scalar_field_validation():
    g = build_grid(4, 4, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        ScalarField(g, np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((4, 4)), role="bogus")
    f = ScalarField(g, np.ones((4, 4)), role="relative_vorticity")
    assert f.axis_symmetry == "even"
    c = f.copy()
    c.values[0, 0] = 7.0
    assert f.values[0, 0] == 1.0


def test_axis_symmetry_roles():
    assert AXIS_SYMMETRY["relative_vorticity"] == "even"
    assert AXIS_SYMMETRY["vorticity"] == "odd"
    assert AXIS_SYMMETRY["stream"] == "even"
    assert AXIS_SYMMETRY["dual"] == "odd"


def test_velocity_field():
    g = build_grid(4, 4, 1.0, 0.0, 1.0)
    u = VelocityField(g, np.full((4, 4), -0.25), np.full((4, 4), 3.0))
    assert u.max_speeds() == (0.25, 3.0)
    assert np.allclose(np.sqrt(u.u_r**2 + u.u_z**2), np.hypot(0.25, 3.0))
    # constant u_r extrapolates to itself
    assert np.allclose(1.5 * u.u_r[0] - 0.5 * u.u_r[1], -0.25)
    with pytest.raises(ValueError):
        VelocityField(g, np.zeros((4, 5)), np.zeros((4, 4)))


def test_integrate_weighted_against_dblquad():
    # oracle: adaptive quadrature of the same smooth integrand
    g = build_grid(128, 128, 2.0, -1.0, 1.0)
    r2d, z2d = g.meshes()
    vals = np.exp(-(r2d**2) - z2d**2)
    f = ScalarField(g, vals)
    for k, p in ((1.0, 1.0), (3.0, 2.0), (0.0, 1.0)):
        got = integrate_weighted(f, k, p)
        want, _ = integrate.dblquad(
            lambda r, z: np.exp(-p * (r**2 + z**2)) * r**k, -1.0, 1.0, 0.0, 2.0
        )
        assert abs(got - want) / abs(want) < 2e-4, (k, p, got, want)


def test_integrate_signed_cancellation():
    g = build_grid(64, 64, 1.0, -1.0, 1.0)
    r2d, z2d = g.meshes()
    f = ScalarField(g, z2d * np.exp(-(r2d**2)))
    # odd in z: signed integral cancels exactly on the symmetric grid
    assert abs(integrate_signed(f, 1.0)) < 1e-15
    assert integrate_weighted(f, 1.0, 1.0) > 0.1


def test_integrate_weighted_validates_p():
    g = build_grid(4, 4, 1.0, 0.0, 1.0)
    f = ScalarField(g, np.ones((4, 4)))
    with pytest.raises(ValueError):
        integrate_weighted(f, 1.0, 0.5)


def test_ddr_ddz_exact_on_quadratics():
    # central differences are exact for polynomials of degree <= 2
    g = build_grid(16, 12, 2.0, -1.0, 1.0)
    r2d, z2d = g.meshes()
    vals = 3.0 * r2d**2 - 2.0 * r2d + z2d**2 + 0.5 * z2d
    dr = ddr(vals, g, "none")
    dz = ddz(vals, g)
    assert np.allclose(dr, 6.0 * r2d - 2.0, atol=1e-12)
    assert np.allclose(dz, 2.0 * z2d + 0.5, atol=1e-12)


def test_ddr_parity_closures():
    # even extension is exact for even polynomials, odd for odd ones
    g = build_grid(16, 4, 1.0, 0.0, 1.0)
    r2d, _ = g.meshes()
    even = r2d**2
    odd = r2d**3 - r2d
    dr_even = ddr(even, g, "even")
    assert np.allclose(dr_even[0], 2.0 * r2d[0], atol=1e-12)
    dr_odd = ddr(odd, g, "odd")
    # odd ghost: (f_1 + f_0) / 2h equals the derivative of an odd cubic
    # only to second order, so compare with tolerance h^2 * |f'''|
    assert np.max(np.abs(dr_odd[0] - (3.0 * r2d[0] ** 2 - 1.0))) < g.hr**2 * 2.0
    with pytest.raises(ValueError):
        ddr(even, g, "sideways")


def test_gradient_second_order():
    # the passive-scalar role assumes even parity at the axis, so the test
    # function must be even in r
    errs = []
    for n in (32, 64):
        g = build_grid(n, n, 2.0, -1.0, 1.0)
        r2d, z2d = g.meshes()
        f = ScalarField(g, np.cos(r2d) * np.cos(z2d), role="passive_scalar")
        fr, fz = gradient(f)
        er = np.max(np.abs(fr.values + np.sin(r2d) * np.cos(z2d)))
        ez = np.max(np.abs(fz.values + np.cos(r2d) * np.sin(z2d)))
        errs.append(max(er, ez))
    order = np.log2(errs[0] / errs[1])
    assert order > 1.9
