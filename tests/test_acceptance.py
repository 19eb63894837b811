"""End-to-end acceptance criteria for the axisymmetric flow laboratory.

Twelve independent checks, one per shipped guarantee.  Each test prints a
single [PASS]/[FAIL] line with the measured numbers and thresholds, then
asserts.  The lines go to the real stdout and are also echoed in the
terminal summary (via conftest), so they survive output capture.  Expensive
runs are shared through a module cache keyed by their configuration.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

import axisymlab
import conftest

from axisymlab import (
    Ball3D,
    DiagnosticsRecord,
    ScalarField,
    ScalarSeries,
    VelocityField,
    VelocitySeries,
    ap_product,
    ap_scan,
    build_grid,
    built_in_renorm_functions,
    cli_main,
    composition_check,
    decay_rate_fit,
    diffuse_relative_vorticity,
    dissipation_inequality_violations,
    duality_check,
    energy_balance_residual,
    enstrophy_identity_residual,
    gaussian_ring_xi,
    hardy_ratio,
    hill_vortex_velocity_field,
    hill_vortex_xi,
    interpolation_ratio,
    jacobian_check,
    lp_norm_xi,
    monotonicity_violations,
    nash_ratio,
    renorm_residual,
    renorm_test_library,
    replay_run_series,
    run_from_config,
    run_suite,
    sobolev_tuple,
    solve_backward_transport,
    solve_forward_transport,
    solve_stream_function,
    trace_flow,
    velocity_from_stream,
    weighted_sobolev_ratio,
)
from axisymlab import TestFunctionSpec as FnSpec
from axisymlab.sweep import sweep

_CACHE = {}
PS = [1.0, 1.5, 2.0, 3.0]


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {num:02d} {label}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.register_verdict(line)


def _ls_order(ns, errs) -> float:
    """Least-squares slope of log error against log resolution."""
    return float(-np.polyfit(np.log2(np.asarray(ns, dtype=float)),
                             np.log2(np.asarray(errs, dtype=float)), 1)[0])


def _ring_doc(nr, nz, nu, tfinal, dt, ps, scheme="xi_semilagrangian",
              sigma=0.3, z0=0.0):
    return {
        "grid": {"nr": nr, "nz": nz, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
        "nu": nu,
        "tfinal": tfinal,
        "dt": dt,
        "scheme": scheme,
        "initial_condition": {"kind": "gaussian_ring", "r0": 1.0, "z0": z0,
                              "sigma": sigma, "amplitude": 1.0},
        "p_list": list(ps),
    }


def _cached_run(key, doc):
    if key not in _CACHE:
        out = tempfile.mkdtemp(prefix="axf-accept-")
        _CACHE[key] = run_from_config(doc, out)
    return _CACHE[key]


def _regression_runs():
    """The monitored run family shared by the norm and balance criteria."""
    runs = []
    for nu in (1e-2, 1e-3):
        _, records = _cached_run(("reference", nu),
                                 _ring_doc(96, 192, nu, 0.5, 0.01, PS))
        runs.append((f"reference nu={nu:g}", records))
    for nr, nz in ((64, 128), (128, 256)):
        _, records = _cached_run(("nonlinear", nr),
                                 _ring_doc(nr, nz, 1e-2, 0.5, 0.01, PS))
        runs.append((f"nonlinear {nr}x{nz}", records))
    return runs


def test_criterion_01_velocity_reconstruction():
    a, amp = 1.0, 1.0
    hill_errs = []
    smooth_errs = []
    ns = (64, 128, 256)
    solve_seconds = 0.0
    for n in ns:
        g = build_grid(n, 2 * n, 4.0, -4.0, 4.0)  # domain = 4 vortex radii
        r2d, z2d = g.meshes()

        xi = hill_vortex_xi(g, a, amp)
        om = ScalarField(g, xi.values * g.r_col, role="vorticity")
        t0 = time.perf_counter()
        psi, _ = solve_stream_function(om, boundary="kernel")
        u = velocity_from_stream(psi)
        elapsed = time.perf_counter() - t0
        if n == 256:
            solve_seconds = elapsed
        exact = hill_vortex_velocity_field(g, a, amp)
        umax = float(np.hypot(exact.u_r, exact.u_z).max())
        hill_errs.append(
            float(np.hypot(u.u_r - exact.u_r, u.u_z - exact.u_z).max()) / umax)

        # smooth manufactured stream r^2 exp(-r^2 - z^2): the data-limited
        # Hill profile has a curvature jump at the vortex boundary, so the
        # scheme's own convergence order is measured on smooth data
        env = np.exp(-r2d**2 - z2d**2)
        om_s = ScalarField(g, (10.0 * r2d - 4.0 * r2d**3 - 4.0 * r2d * z2d**2) * env,
                           role="vorticity")
        psi_s, _ = solve_stream_function(om_s, boundary="zero")
        u_s = velocity_from_stream(psi_s)
        ur_e = 2.0 * r2d * z2d * env
        uz_e = (2.0 - 2.0 * r2d**2) * env
        umax_s = float(np.hypot(ur_e, uz_e).max())
        smooth_errs.append(
            float(np.hypot(u_s.u_r - ur_e, u_s.u_z - uz_e).max()) / umax_s)

    hill_rel = hill_errs[-1]
    order = _ls_order(ns, smooth_errs)
    hill_order = _ls_order(ns, hill_errs)
    ok = hill_rel <= 0.02 and order >= 1.8 and solve_seconds <= 60.0
    _report(1, "velocity reconstruction", ok,
            f"hill 256x512 max rel err {hill_rel:.4f} (<= 0.02), "
            f"smooth-data order {order:.2f} (>= 1.8), "
            f"hill-data order {hill_order:.2f} (regularity-limited, reported), "
            f"solve {solve_seconds:.1f}s (<= 60)")
    assert ok


def test_criterion_02_enstrophy_identity():
    def residual(nr, nz, rmax, zmax):
        g = build_grid(nr, nz, rmax, -zmax, zmax)
        xi = gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0)
        om = ScalarField(g, xi.values * g.r_col, role="vorticity")
        psi, _ = solve_stream_function(om, boundary="kernel")
        return enstrophy_identity_residual(velocity_from_stream(psi), xi)

    base = residual(96, 192, 3.0, 3.0)
    refined = residual(192, 384, 3.0, 3.0)
    doubled = residual(192, 384, 6.0, 6.0)  # same cell size as base
    ok = base <= 0.02 and refined < base and doubled < base
    _report(2, "enstrophy identity", ok,
            f"reference residual {base:.5f} (<= 0.02), refined {refined:.5f}, "
            f"domain-doubled {doubled:.5f} (both < reference)")
    assert ok


def test_criterion_03_lp_monotonicity_and_dissipation():
    worst_mono = -np.inf
    worst_diss = -np.inf
    for _, records in _regression_runs():
        mono = monotonicity_violations(records, PS)
        diss = dissipation_inequality_violations(records, PS)
        worst_mono = max(worst_mono, max(mono.values()))
        worst_diss = max(worst_diss, max(diss.values()))
    ok = worst_mono <= 1e-8 and worst_diss <= 1e-8
    _report(3, "Lp monotonicity and dissipation", ok,
            f"worst norm increase {worst_mono:.2e}, worst dissipation "
            f"violation {worst_diss:.2e} (both <= 1e-8 relative per step, "
            f"4 runs, p in {{1, 1.5, 2, 3}})")
    assert ok


def test_criterion_04_impulse_conservation():
    doc = _ring_doc(96, 192, 1e-3, 1.0, 0.01, [1.0, 2.0],
                    scheme="omega_conservative")
    _, records = _cached_run(("conservative",), doc)
    i0 = records[0].impulse
    drift = max(abs(r.impulse - i0) for r in records) / abs(i0)
    ok = drift <= 1e-3
    _report(4, "impulse conservation", ok,
            f"relative drift {drift:.2e} over t in [0, 1] (<= 1e-3), "
            f"conservative scheme, nonnegative ring")
    assert ok


def test_criterion_05_smoothing_decay():
    # pure diffusion of a centered blob: the norm-ratio slope isolates the
    # L1 -> Linf smoothing exponent 3/2
    nu, sigma, T, steps = 0.1, 0.25, 40.0, 400
    g = build_grid(128, 256, 10.0, -10.0, 10.0)
    xi = gaussian_ring_xi(g, 0.0, 0.0, sigma, 1.0)
    dt = T / steps

    def rec(t, f):
        return DiagnosticsRecord(t, nu, {1.0: lp_norm_xi(f, 1.0)},
                                 float(np.max(np.abs(f.values))),
                                 0.0, 0.0, 0.0, 0.0, {}, 0.0)

    records = [rec(0.0, xi)]
    for k in range(steps):
        xi = diffuse_relative_vorticity(xi, nu, dt, theta=0.5)
        if (k + 1) % 5 == 0:
            records.append(rec((k + 1) * dt, xi))
    fit = decay_rate_fit(records, 1.0, np.inf, window=(4.0, 40.0))
    exponent_ok = abs(fit.exponent - 1.5) <= 0.15

    # full nonlinear runs: one finite constant for the (1, inf) bound,
    # stable under resolution doubling
    consts = []
    for nr in (64, 128):
        _, records = _cached_run(("nonlinear", nr),
                                 _ring_doc(nr, 2 * nr, 1e-2, 0.5, 0.01, PS))
        consts.append(decay_rate_fit(records, 1.0, np.inf,
                                     window=(0.05, 0.5)).bound_constant)
    stable = abs(consts[1] - consts[0]) / consts[0]
    const_ok = all(np.isfinite(c) and c > 0.0 for c in consts) and stable <= 0.10
    ok = exponent_ok and const_ok
    _report(5, "smoothing decay", ok,
            f"diffusion exponent {fit.exponent:.3f} (1.5 +- 10%), nonlinear "
            f"bound constant {consts[1]:.2e}, resolution drift "
            f"{stable * 100:.2f}% (<= 10%)")
    assert ok


def test_criterion_06_energy_balance():
    _, records = _cached_run(("reference", 1e-2),
                             _ring_doc(96, 192, 1e-2, 0.5, 0.01, PS))
    base = energy_balance_residual(records, 1e-2)
    _, refined_records = _cached_run(("balance-refined",),
                                     _ring_doc(144, 288, 1e-2, 0.5, 0.01,
                                               [1.0, 2.0]))
    refined = energy_balance_residual(refined_records, 1e-2)
    ok = base <= 0.05 and refined < base
    _report(6, "energy balance", ok,
            f"reference residual {base:.2e} (<= 0.05), refined {refined:.2e} "
            f"(< reference)")
    assert ok


def test_criterion_07_energy_deficit_scaling():
    doc = _ring_doc(64, 128, 1e-2, 0.3, 0.01, [1.0, 2.0])
    out = tempfile.mkdtemp(prefix="axf-sweep-")
    res = sweep(doc, [1e-2, 5e-3, 2.5e-3, 1.25e-3], out)
    exponent_ok = abs(res.deficit_exponent - 1.0) <= 0.15

    # the p = 2 bound constant fitted on the largest viscosity must cover
    # every smaller-viscosity member (a viscosity-uniform constant)
    per_member = {}
    for nu, t, d in res.deficit_table:
        if t > 0.0:
            per_member[nu] = max(per_member.get(nu, 0.0),
                                 d / (nu * t) ** 0.25)
    c_top = per_member[max(per_member)]
    uniform = all(c <= c_top * (1.0 + 1e-12) for c in per_member.values())
    bound_ok = np.isfinite(res.bound_constant) and uniform
    ok = exponent_ok and bound_ok
    _report(7, "energy deficit scaling", ok,
            f"deficit exponent {res.deficit_exponent:.3f} (1.0 +- 0.15), "
            f"p=2 bound constant {res.bound_constant:.3e} fitted at nu=1e-2 "
            f"covers all members: {uniform}")
    assert ok


def test_criterion_08_transport_renormalization():
    T = 0.25
    library = renorm_test_library(32, T, rng_seed=5)
    rng = np.random.default_rng(11)
    seeds = np.column_stack([rng.uniform(0.5, 1.8, 16),
                             rng.uniform(-1.0, 0.5, 16)])
    grids = (48, 96, 192)
    residuals = {name: [] for name in built_in_renorm_functions()}
    comp, jac = [], []
    for n in grids:
        steps = n // 2
        doc = _ring_doc(n, 2 * n, 0.0, T, T / steps, [2.0],
                        sigma=0.25, z0=-0.3)
        xis, us = replay_run_series(doc)
        for name, beta in built_in_renorm_functions().items():
            residuals[name].append(renorm_residual(xis, us, beta, library))
        flow = trace_flow(us, seeds, T, n_steps=steps)
        r2d, _ = xis.grid.meshes()
        omegas = ScalarSeries(xis.times,
                              [ScalarField(xis.grid, f.values * r2d, role="vorticity")
                               for f in xis.fields])
        comp.append(composition_check(xis, flow))
        jac.append(jacobian_check(omegas, flow))

    res_orders = {name: _ls_order(grids, vals) for name, vals in residuals.items()}
    comp_order = _ls_order(grids, comp)
    jac_order = _ls_order(grids, jac)
    res_ok = all(v >= 1.8 for v in res_orders.values())
    defect_ok = comp_order >= 1.8 and jac_order >= 1.8
    ok = res_ok and defect_ok
    res_txt = ", ".join(f"{k} {v:.2f}" for k, v in sorted(res_orders.items()))
    _report(8, "transport renormalization", ok,
            f"weak-form residual orders [{res_txt}] (each >= 1.8, 32-member "
            f"library), composition order {comp_order:.2f}, jacobian order "
            f"{jac_order:.2f} (>= 1.8)")
    assert ok


def test_criterion_09_transport_duality():
    T = 0.25
    defects = []
    grids = (64, 128, 256)
    for n in grids:
        steps = n // 4
        g = build_grid(n, n, 2.0, -1.0, 1.0)
        r2d, z2d = g.meshes()
        env = np.exp(-r2d**2 - z2d**2)
        u = VelocityField(g, 2.0 * r2d * z2d * env, (2.0 - 2.0 * r2d**2) * env)
        us = VelocitySeries.frozen(u, T)
        theta0 = ScalarField(g, np.exp(-((r2d - 0.9) ** 2 + (z2d - 0.1) ** 2) / 0.08),
                             role="passive_scalar")

        def chi(t, r, z):
            return (1.0 + 0.5 * t) * np.exp(-((r - 0.7) ** 2 + (z + 0.2) ** 2) / 0.06)

        theta = solve_forward_transport(us, theta0, T, steps)
        f = solve_backward_transport(us, chi, T, steps)
        defects.append(duality_check(theta, f, chi, T))
    order = _ls_order(grids, defects)
    ok = defects[-1] <= 1e-3 and order >= 1.8
    _report(9, "transport duality", ok,
            f"defect at 256^2 {defects[-1]:.2e} (<= 1e-3), refinement order "
            f"{order:.2f} (>= 1.8)")
    assert ok


def test_criterion_10_weight_class_bounds():
    rows = []
    ok = True
    for p in (1.2, 1.5, 1.9):
        scan = ap_scan(p, 100_000, rng_seed=0)
        doubled = ap_scan(p, 200_000, rng_seed=0)
        drift = abs(doubled.sup - scan.sup) / scan.sup
        far_ok = scan.far_sup <= 3.0**p + 1e-3
        stable = drift <= 0.05
        ok = ok and far_ok and stable and np.isfinite(scan.sup)
        rows.append(f"p={p}: far {scan.far_sup:.3f} <= {3.0**p + 1e-3:.3f}, "
                    f"sup {scan.sup:.3f}, drift {drift * 100:.3f}%")
    controls = [ap_product(1.5, Ball3D(3.0, 0.5, 1.0), weight_exponent=0),
                ap_product(1.5, Ball3D(0.5, 0.0, 1.0), weight_exponent=0)]
    control_ok = all(abs(c - 1.0) <= 1e-6 for c in controls)
    ok = ok and control_ok
    _report(10, "weight class bounds", ok,
            "; ".join(rows) + f"; constant-weight control "
            f"max |1 - sup| {max(abs(c - 1.0) for c in controls):.1e} (<= 1e-6)")
    assert ok


def test_criterion_11_functional_inequalities():
    t0 = time.perf_counter()
    sups = {}
    for suite in ("ap", "sobolev", "interp", "nash", "hardy"):
        sups[suite] = run_suite(suite, seed=3)["empirical_sup"]
    doubled_ok = True
    drifts = []
    for suite in ("sobolev", "interp", "nash", "hardy"):
        sup2 = run_suite(suite, seed=3, sample_count=2000)["empirical_sup"]
        drift = abs(sup2 - sups[suite]) / sups[suite]
        drifts.append(drift)
        doubled_ok = doubled_ok and drift <= 0.10
    elapsed = time.perf_counter() - t0

    # dilation invariance of every normalized ratio
    f = FnSpec("gaussian_bump",
               {"r0": 1.5, "z0": 0.2, "wr": 0.7, "wz": 0.5, "amplitude": 2.0})
    s, t, alpha, beta = sobolev_tuple(2.0)
    invariance = []
    for mu in (0.5, 4.0):
        g = f.dilated(mu)
        pairs = [
            (weighted_sobolev_ratio(f, s, t, alpha, beta),
             weighted_sobolev_ratio(g, s, t, alpha, beta)),
            (interpolation_ratio(f, 1.8), interpolation_ratio(g, 1.8)),
            (nash_ratio(f), nash_ratio(g)),
            (hardy_ratio(f, 0.0, R=1.0), hardy_ratio(g, 0.0, R=1.0 / mu)),
        ]
        invariance.extend(abs(b - a) / a for a, b in pairs)
    scale_ok = max(invariance) <= 1e-3

    finite_ok = all(np.isfinite(v) for v in sups.values())
    runtime_ok = elapsed <= 600.0
    ok = finite_ok and doubled_ok and scale_ok and runtime_ok
    _report(11, "functional inequalities", ok,
            f"all suite sups finite: {finite_ok}, doubling drift max "
            f"{max(drifts) * 100:.2f}% (<= 10%), scale invariance "
            f"{max(invariance):.1e} (<= 1e-3), runtime {elapsed:.0f}s (<= 600)")
    assert ok


def test_criterion_12_reproducibility():
    doc = _ring_doc(32, 64, 1e-3, 0.05, 0.01, [1.0, 2.0])
    workdir = tempfile.mkdtemp(prefix="axf-repro-")
    cfg = os.path.join(workdir, "config.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    outs = [os.path.join(workdir, d) for d in ("first", "second")]
    # the second run goes through a fresh interpreter, so no state carried
    # over inside one process can make the two runs agree
    codes = [cli_main(["run", "--config", cfg, "--out", outs[0]])]
    src = os.path.dirname(os.path.dirname(os.path.abspath(axisymlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    second = subprocess.run(
        [sys.executable, "-m", "axisymlab.cli", "run", "--config", cfg, "--out", outs[1]],
        capture_output=True, text=True, env=env,
    )
    codes.append(second.returncode)

    names = sorted(os.listdir(outs[0]))
    identical = names == sorted(os.listdir(outs[1]))
    for name in names:
        with open(os.path.join(outs[0], name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            b = fh.read()
        identical = identical and a == b
    ok = codes == [0, 0] and identical
    _report(12, "reproducibility", ok,
            f"two runs in separate processes, files {names}: byte-identical {identical}")
    assert ok
