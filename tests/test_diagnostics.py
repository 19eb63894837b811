import numpy as np
import pytest
from scipy import integrate

from axisymlab import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    ScalarField,
    VelocityField,
    build_grid,
    compute_record,
    decay_rate_fit,
    dissipation_inequality_violations,
    dissipation_integral,
    energy_balance_residual,
    enstrophy,
    enstrophy_identity_residual,
    gaussian_ring_xi,
    grad_u_sq,
    hill_impulse,
    hill_vortex_xi,
    impulse,
    kinetic_energy,
    local_w1p_check,
    lp_norm_xi,
    make_state,
    monotonicity_violations,
    sobolev_embedding_ratio,
    write_csv,
)
from axisymlab.grid import ddr, ddz


def test_lp_norm_closed_form():
    # centered Gaussian: ||xi||_p^p = 2 pi integral e^{-p rho^2/(2 s^2)} r
    # = (2 pi)^{3/2} s^3 p^{-3/2}
    s = 0.5
    g = build_grid(128, 256, 3.0, -3.0, 3.0)
    r2d, z2d = g.meshes()
    xi = ScalarField(g, np.exp(-(r2d**2 + z2d**2) / (2.0 * s**2)), role="relative_vorticity")
    for p in (1.0, 1.5, 2.0, 3.0):
        exact = ((2.0 * np.pi) ** 1.5 * s**3 / p**1.5) ** (1.0 / p)
        assert abs(lp_norm_xi(xi, p) - exact) < 1e-4 * exact
    assert lp_norm_xi(xi, np.inf) == np.max(np.abs(xi.values))
    with pytest.raises(ValueError):
        lp_norm_xi(xi, 0.5)


def test_impulse_oracles():
    g = build_grid(192, 384, 2.0, -2.0, 2.0)
    # narrow Gaussian ring: impulse ~ 2 pi s^2 A r0 (r0^2 + 3 s^2)
    r0, s, amp = 1.0, 0.1, 2.0
    ring = gaussian_ring_xi(g, r0=r0, z0=0.0, sigma=s, amplitude=amp)
    exact = 2.0 * np.pi * s**2 * amp * r0 * (r0**2 + 3.0 * s**2)
    assert abs(impulse(ring) - exact) < 1e-5 * exact
    # discontinuous spherical blob: exact closed form, first order accurate
    hill = hill_vortex_xi(g, radius=1.0, amplitude=1.0)
    assert abs(impulse(hill) - hill_impulse(1.0, 1.0)) < 5e-3 * hill_impulse(1.0, 1.0)


def test_energy_and_gradient_against_quadrature():
    # u_r = r e^{-rho^2}, u_z = e^{-rho^2}: all five gradient terms in
    # closed form, reference values by adaptive quadrature
    g = build_grid(128, 256, 4.0, -4.0, 4.0)
    r2d, z2d = g.meshes()
    e = np.exp(-(r2d**2) - z2d**2)
    u = VelocityField(g, r2d * e, e)

    def speed2(z, r):
        w = np.exp(-2.0 * (r**2 + z**2))
        return (r**2 + 1.0) * w * r

    def gradmag2(z, r):
        w = np.exp(-2.0 * (r**2 + z**2))
        return ((1.0 - 2.0 * r**2) ** 2 + 1.0 + 4.0 * r**2 * z**2 + 4.0 * r**2 + 4.0 * z**2) * w * r

    e_exact = 2.0 * np.pi * integrate.dblquad(speed2, 0.0, 4.0, -4.0, 4.0)[0]
    g_exact = 2.0 * np.pi * integrate.dblquad(gradmag2, 0.0, 4.0, -4.0, 4.0)[0]
    assert abs(kinetic_energy(u) - e_exact) < 5e-4 * e_exact
    assert abs(grad_u_sq(u) - g_exact) < 5e-3 * g_exact


def test_enstrophy_closed_form():
    # enstrophy of xi with omega = r xi, xi = e^{-rho^2}:
    # 2 pi int r^2 e^{-2 rho^2} r d(r,z) = int_{R^3} |x_h|^2 e^{-2|x|^2}
    # with |x_h|^2 = (2/3)|x|^2 on spherical average
    g = build_grid(128, 256, 4.0, -4.0, 4.0)
    r2d, z2d = g.meshes()
    xi = ScalarField(g, np.exp(-(r2d**2) - z2d**2), role="relative_vorticity")
    exact = (2.0 / 3.0) * 4.0 * np.pi * integrate.quad(
        lambda s: s**4 * np.exp(-2.0 * s**2), 0.0, 6.0
    )[0]
    assert abs(enstrophy(xi) - exact) < 1e-5 * exact


def test_enstrophy_identity_on_solved_state():
    g = build_grid(96, 192, 4.0, -4.0, 4.0)
    xi0 = gaussian_ring_xi(g, r0=1.0, z0=0.0, sigma=0.25, amplitude=1.0)
    state = make_state(g, xi0, nu=0.0, boundary="kernel")
    assert enstrophy_identity_residual(state.u, state.xi) < 0.05
    zero = VelocityField(g, np.zeros((96, 192)), np.zeros((96, 192)))
    xi_zero = ScalarField(g, np.zeros((96, 192)), role="relative_vorticity")
    assert enstrophy_identity_residual(zero, xi_zero) == 0.0


def test_dissipation_integral_properties():
    g = build_grid(64, 128, 3.0, -3.0, 3.0)
    xi = gaussian_ring_xi(g, r0=1.2, z0=0.0, sigma=0.3, amplitude=1.0)
    d2 = dissipation_integral(xi, nu=0.1, p=2.0)
    assert d2 > 0.0
    # nu scaling is linear, p = 1 has a vanishing (p-1) prefactor
    assert np.isclose(dissipation_integral(xi, 0.2, 2.0), 2.0 * d2)
    assert dissipation_integral(xi, 0.1, 1.0) == 0.0
    assert dissipation_integral(xi, 0.1, 1.5) > 0.0  # masked power stays finite
    with pytest.raises(ValueError):
        dissipation_integral(xi, 0.1, 0.5)


def test_compute_record_dissipation_is_dissipation_integral():
    # compute_record shares one gradient across p; each column must keep the
    # bits of a separate dissipation_integral call and of the per-p formula
    g = build_grid(48, 96, 3.0, -3.0, 3.0)
    state = make_state(g, gaussian_ring_xi(g, r0=1.0, z0=0.1, sigma=0.3, amplitude=1.0), nu=0.01)
    ps = [1.0, 1.5, 2.0, 3.0]
    rec = compute_record(state, ps)
    xi = state.xi
    g2 = ddr(xi.values, g, "even") ** 2 + ddz(xi.values, g) ** 2
    a = np.abs(xi.values)
    for p in ps:
        if p == 2.0:
            w = np.ones_like(a)
        else:
            mask = a > 1e-14 * max(float(np.max(a)), 1e-300)
            w = np.where(mask, np.where(mask, a, 1.0) ** (p - 2.0), 0.0)
        formula = float(state.nu * (p - 1.0) * 2.0 * np.pi
                        * (np.sum(w * g2 * g.r_col) * g.cell_area))
        assert rec.dissipation[p] == dissipation_integral(xi, state.nu, p) == formula


def test_compute_record_and_collector():
    g = build_grid(48, 96, 3.0, -3.0, 3.0)
    xi0 = gaussian_ring_xi(g, r0=1.0, z0=0.0, sigma=0.3, amplitude=1.0)
    state = make_state(g, xi0, nu=0.01)
    rec = compute_record(state, [1.0, 2.0])
    assert rec.t == 0.0 and rec.nu == 0.01
    assert set(rec.lp_norms) == {1.0, 2.0}
    assert rec.energy > 0.0 and rec.enstrophy > 0.0 and rec.impulse > 0.0
    assert rec.energy_deficit == 0.0
    collector = DiagnosticsCollector(ps=(1.0, 2.0))
    collector(state, 0)
    collector(state, 1)
    assert len(collector.records) == 2
    assert collector.records[0].energy_deficit == 0.0
    assert collector.records[1].energy_deficit == 0.0  # same state, same energy
    with pytest.raises(ValueError):
        compute_record(state, [])


def synthetic_records(ts, nu, lp, linf=None, diss=None, energy=None, gusq=None):
    out = []
    for k, t in enumerate(ts):
        norms = {p: vals[k] for p, vals in lp.items()}
        out.append(
            DiagnosticsRecord(
                t=t,
                nu=nu,
                lp_norms=norms,
                linf=linf[k] if linf is not None else max(norms.values()),
                impulse=1.0,
                energy=energy[k] if energy is not None else 1.0,
                enstrophy=1.0,
                grad_u_sq=gusq[k] if gusq is not None else 0.0,
                dissipation={p: (diss[p][k] if diss else 0.0) for p in lp},
                energy_deficit=0.0,
            )
        )
    return out


def test_write_csv_format(tmp_path):
    ts = [0.0, 0.1]
    recs = synthetic_records(ts, 0.01, {1.0: [1.0, 0.9], 1.5: [1.0, 0.8], 2.0: [1.0, 0.7]})
    path = tmp_path / "diag.csv"
    write_csv(recs, [1.0, 1.5, 2.0], str(path))
    lines = path.read_text().split("\n")
    assert lines[0] == (
        "t,nu,lp_1,lp_1.5,lp_2,linf,impulse,energy,enstrophy,grad_u_sq,"
        "diss_1,diss_1.5,diss_2,energy_deficit"
    )
    assert len(lines) == 4 and lines[-1] == ""  # trailing newline
    cells = lines[2].split(",")
    assert len(cells) == 14
    assert float(cells[0]) == 0.1 and float(cells[2]) == 0.9  # repr round-trips
    # third significant column is the 1.5-norm
    assert float(cells[3]) == 0.8


def test_energy_balance_residual():
    # exact linear decay against a constant gradient integral: the running
    # trapezoid reproduces it identically
    nu, g0, e0 = 0.05, 2.0, 10.0
    ts = np.linspace(0.0, 1.0, 11)
    energy = e0 - 2.0 * nu * g0 * ts
    recs = synthetic_records(
        ts, nu, {2.0: np.ones_like(ts)}, energy=energy, gusq=np.full_like(ts, g0)
    )
    assert energy_balance_residual(recs, nu) < 1e-14
    energy_bad = energy.copy()
    energy_bad[5] += 0.3
    recs_bad = synthetic_records(
        ts, nu, {2.0: np.ones_like(ts)}, energy=energy_bad, gusq=np.full_like(ts, g0)
    )
    assert abs(energy_balance_residual(recs_bad, nu) - 0.03) < 1e-12
    assert energy_balance_residual(recs[:1], nu) == 0.0
    zero = synthetic_records([0.0, 1.0], nu, {2.0: [1.0, 1.0]}, energy=[0.0, 0.0])
    with pytest.raises(ValueError):
        energy_balance_residual(zero, nu)


def test_monotonicity_violations_detector():
    ts = [0.0, 0.1, 0.2, 0.3]
    lp = {1.0: [1.0, 0.9, 0.8, 0.7], 2.0: [1.0, 0.95, 0.999, 0.9]}
    out = monotonicity_violations(synthetic_records(ts, 0.01, lp), [1.0, 2.0])
    assert out[1.0] < 0.0  # strictly decreasing
    assert abs(out[2.0] - (0.999 - 0.95) / 0.95) < 1e-12  # planted bump found


def test_dissipation_inequality_detector():
    # with p = 2, N = ||xi||_2^2 / 2; choose D at the right endpoint equal
    # to the exact decrement so the defect is zero, then overstate it
    ts = np.array([0.0, 0.1, 0.2])
    n = np.array([1.0, 0.8, 0.65])
    lp = {2.0: np.sqrt(2.0 * n)}
    d_exact = {2.0: [0.0, (n[0] - n[1]) / 0.1, (n[1] - n[2]) / 0.1]}
    recs = synthetic_records(ts, 0.01, lp, diss=d_exact)
    out = dissipation_inequality_violations(recs, [2.0])
    assert abs(out[2.0]) < 1e-12
    d_over = {2.0: [0.0, (n[0] - n[1]) / 0.1 + 0.5, (n[1] - n[2]) / 0.1]}
    out_over = dissipation_inequality_violations(synthetic_records(ts, 0.01, lp, diss=d_over), [2.0])
    assert abs(out_over[2.0] - 0.05) < 1e-12


def test_decay_rate_fit_exact_power_law():
    # synthetic self-similar decay: the ratio slope must recover the
    # smoothing exponent exactly, p-norm decay cancels in the ratio
    nu, p, q = 0.1, 1.0, 2.0
    ts = np.concatenate([[0.0], np.geomspace(0.5, 50.0, 24)])
    qn = 3.0 * (nu * ts[1:]) ** -(2.5 - 1.5 / q)
    pn = 2.0 * (nu * ts[1:]) ** -(2.5 - 1.5 / p)
    lp = {p: np.concatenate([[1e9], pn]), q: np.concatenate([[1e9], qn])}
    recs = synthetic_records(ts, nu, lp)
    fit = decay_rate_fit(recs, p, q, window=(0.5, 50.0))
    assert abs(fit.exponent - 1.5 * (1.0 / p - 1.0 / q)) < 1e-10
    assert abs(fit.raw_q_exponent - (2.5 - 1.5 / q)) < 1e-10
    assert fit.residual < 1e-12
    assert fit.n_points == 24
    assert np.isfinite(fit.bound_constant) and fit.bound_constant > 0.0
    # q = inf path reads the linf column
    linf = np.concatenate([[1e9], 5.0 * (nu * ts[1:]) ** -2.5])
    recs_inf = synthetic_records(ts, nu, lp, linf=linf)
    fit_inf = decay_rate_fit(recs_inf, 1.0, np.inf, window=(0.5, 50.0))
    assert abs(fit_inf.exponent - 1.5) < 1e-10
    assert abs(fit_inf.raw_q_exponent - 2.5) < 1e-10


def test_decay_rate_fit_validation():
    nu = 0.1
    ts = np.array([0.0, 1.0, 2.0, 30.0])
    lp = {1.0: [9.0, 3.0, 2.0, 1.0], 2.0: [9.0, 3.0, 2.0, 1.0]}
    recs = synthetic_records(ts, nu, lp)
    with pytest.raises(ValueError):
        decay_rate_fit(recs, 2.0, 1.0)  # q < p
    with pytest.raises(ValueError):
        decay_rate_fit(recs, 1.0, 2.0, window=(1.0, 5.0))  # under one decade
    with pytest.raises(ValueError):
        decay_rate_fit(recs, 1.0, 2.0, window=(1.0, 100.0))  # outside span
    with pytest.raises(ValueError):
        decay_rate_fit(synthetic_records(ts, 0.0, lp), 1.0, 2.0)  # inviscid
    sparse = synthetic_records(np.array([0.0, 1.0, 30.0]), nu, {1.0: [9, 3, 1], 2.0: [9, 3, 1]})
    with pytest.raises(ValueError):
        decay_rate_fit(sparse, 1.0, 2.0, window=(1.0, 30.0))  # 2 usable points


def test_local_w1p_and_embedding():
    g = build_grid(48, 96, 3.0, -3.0, 3.0)
    xi0 = gaussian_ring_xi(g, r0=1.0, z0=0.0, sigma=0.3, amplitude=1.0)
    state = make_state(g, xi0, nu=0.01)
    norm, ratio = local_w1p_check(state, R=1.5, p_star=1.5, p=2.0)
    assert norm > 0.0 and ratio > 0.0
    norm2, ratio2 = local_w1p_check(state, R=1.5, p_star=1.5, p=2.0, ref_norms=(1.0, 1.0))
    assert norm2 == norm and np.isclose(ratio2, norm / 2.0)
    with pytest.raises(ValueError):
        local_w1p_check(state, R=1.5, p_star=2.5, p=3.0)
    with pytest.raises(ValueError):
        local_w1p_check(state, R=10.0, p_star=1.5, p=2.0)
    omega = state.omega_field()
    val = sobolev_embedding_ratio(state.u, omega, p=1.5)
    assert np.isfinite(val) and val > 0.0
    with pytest.raises(ValueError):
        sobolev_embedding_ratio(state.u, omega, p=2.0)
    zero = ScalarField(g, np.zeros((48, 96)), role="vorticity")
    assert sobolev_embedding_ratio(state.u, zero, p=1.5) == 0.0


def test_local_w1p_gradient_is_grad_u_magnitude():
    # the ball norm's gradient term is the pointwise |grad u| of
    # grad_u_magnitude_sq, term for term, so the norm is bit-identical to the
    # five-term expression written out
    g = build_grid(48, 96, 3.0, -3.0, 3.0)
    state = make_state(g, gaussian_ring_xi(g, 1.0, 0.2, 0.3, 1.0), nu=0.01)
    u, R, p_star = state.u, 1.5, 1.5
    gmag = np.sqrt(
        ddr(u.u_r, g, "odd") ** 2 + (u.u_r / g.r_col) ** 2 + ddz(u.u_r, g) ** 2
        + ddr(u.u_z, g, "even") ** 2 + ddz(u.u_z, g) ** 2
    )
    r2d, z2d = g.meshes()
    mask = (r2d**2 + z2d**2) <= R * R
    w = 2.0 * np.pi * g.r_col * g.cell_area
    total = np.sum((np.hypot(u.u_r, u.u_z) ** p_star + gmag**p_star) * w * mask)
    norm, _ = local_w1p_check(state, R=R, p_star=p_star, p=2.0)
    assert norm == float(total ** (1.0 / p_star))
